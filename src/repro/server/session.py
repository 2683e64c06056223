"""Sessions: snapshot-isolated query/update units over a shared model.

A :class:`Session` is the unit of client state in the query service.  Each
request executes the REPL grammar (``?- query.``, ``+fact.``, ``-fact.``,
``:commands``) against an **immutable snapshot** pinned per request, so a
session never observes a half-applied delta no matter how many other
sessions are writing:

* **Reads** resolve a :class:`~repro.engine.maintenance.ModelSnapshot` —
  the latest published version by default, or a fixed one after ``:at N``
  (time travel) — then parse, plan and execute the query against it.
  Conjunctive queries compile through the same planner/executor as rule
  bodies (set-at-a-time when the plan applies, tuple-at-a-time solver
  otherwise, with active-domain fallback disabled: queries must be
  range-restricted).
* **Writes** go through the single serialized writer
  (:meth:`VersionedModel.apply_delta`).  By default every ``+``/``-``
  commits immediately; ``:begin`` opens an explicit batch that ``:commit``
  applies atomically (one maintenance sweep, one published version) and
  ``:abort`` discards.  **Read-your-writes:** a query on a session with a
  pending batch flushes the batch first, so the session's own reads always
  reflect its own writes; other sessions only ever see published versions.
* **Stats are per-session.**  Every query runs with fresh
  :class:`SolverStats`/:class:`ExecStats` merged into the session's
  totals under the session lock; the service merges sessions on read.
  Nothing shared is mutated on the read path, so totals stay exact under
  concurrent threads (see ``tests/test_concurrency.py``).

Every error — parse failure, retired version, oversized batch, closed
session — returns a structured :class:`Response` with a stable ``code``
and leaves the shared model untouched.
"""

from __future__ import annotations

import itertools
import json
import logging
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Optional

from ..core.atoms import Atom, Literal
from ..core.clauses import GroupingClause, LPSClause, Rule
from ..core.errors import EvaluationError, LPSError, SafetyError
from ..core.terms import Const, Param, Term, subterms
from ..engine.answers import Answers
from ..engine.evaluation import BoundRule, SolverStats, _CompiledRule, _Engines
from ..engine.columnar import annotated_pretty
from ..engine.ir import ExecStats
from ..engine.maintenance import (
    MaintenanceReport,
    ModelSnapshot,
    RetiredVersionError,
    VersionedModel,
)
from ..engine.planner import compile_grouping, compile_rule
from ..lang import (
    ANONYMOUS,
    goal_shape,
    parse_atom,
    parse_program,
    predicate_sorts,
)

logger = logging.getLogger("repro.server")

#: Goal shapes a session keeps compiled, and goal texts it keeps mapped to
#: them (the least recently asked of each evicted first).
QUERY_CACHE_SIZE = 512

#: Structured error codes (stable protocol surface; tests key on these).
E_PARSE = "parse_error"
E_RETIRED = "retired_version"
E_BATCH = "batch_too_large"
E_EVAL = "evaluation_error"
E_UNSAFE = "unsafe_query"
E_CLOSED = "session_closed"
E_COMMAND = "unknown_command"
#: Replication & failover codes (see DESIGN.md, "Replication & failover").
E_UNKNOWN_VERSION = "unknown_version"      # :at N beyond latest (leader)
E_NOT_YET = "not_yet_applied"              # retryable: follower lag
E_READ_ONLY = "read_only"                  # write sent to a follower
E_NOT_FOLLOWER = "not_a_follower"          # :promote sent to a leader
E_CLOSING = "server_closing"               # graceful shutdown in progress

#: Head predicate for compiled query clauses (identifiers must start
#: lower-case; the atom never enters any model, so collisions are inert).
QUERY_PRED = "query__"


# -- the ``:command`` table ----------------------------------------------------
#
# An argument parser takes the text after the command name and returns the
# handler's arguments; ``ValueError``/``IndexError`` from it is the
# command's usage error.

def _ignored(arg: str) -> tuple:
    return ()


def _text(arg: str) -> tuple:
    return (arg,)


def _int(arg: str) -> tuple:
    return (int(arg.rstrip(".")),)


def _optional_int(arg: str) -> tuple:
    arg = arg.rstrip(".").strip()
    return (int(arg) if arg else None,)


def _sync_args(arg: str) -> tuple:
    parts = arg.rstrip(".").split()
    version = int(parts[0])
    timeout = float(parts[1]) if len(parts) > 1 else 30.0
    # What a condition wait accepts; false for nan as well.
    if not 0 <= timeout <= threading.TIMEOUT_MAX:
        raise ValueError(timeout)
    return version, timeout


#: ``:command`` -> (usage of its argument, argument parser, handler method
#: name).  Handlers are looked up by name on the session, so a subclass
#: overrides one by overriding the method.
COMMANDS: dict[str, tuple[str, Callable[[str], tuple], str]] = {}


def _on(name: str, usage: str = "", parse: Callable[[str], tuple] = _ignored):
    """Register the decorated :class:`Session` method as ``name``."""
    def register(method):
        COMMANDS[name] = (usage, parse, method.__name__)
        return method
    return register


#: What ``json.dumps(..., sort_keys=True)`` builds per call, built once.
_ENCODE = json.JSONEncoder(sort_keys=True).encode

#: Stands in for ``data["rows"]`` of a reply that holds its answers in ID
#: space until someone reads ``data`` (never handed out, never mutated).
_UNBUILT: list = []


class Response:
    """One structured reply: what a request did, or why it could not.

    ``kind`` names the payload shape (``answers``, ``write``, ``stats``,
    ``model``, ``plan``, ``version``, ``ok``, ``error``, ``subscribed``,
    ``diffs``, and the async push kinds ``diff``/``sub_dropped``);
    ``version`` is
    the snapshot version the request observed or produced, when there is
    one.  Serialization is a single JSON line, the protocol's wire format.

    A reply that carries answer rows (:meth:`with_rows`) holds them in ID
    space: :meth:`to_json` splices the line from the cached cell literals
    and ``data["rows"]`` is built only when ``data`` is read — the same
    bytes and the same value as building the rows first would give.
    """

    __slots__ = ("ok", "kind", "version", "error", "code", "_data", "_rows")

    def __init__(
        self,
        ok: bool,
        kind: str,
        data: Any = None,
        version: Optional[int] = None,
        error: Optional[str] = None,
        code: Optional[str] = None,
    ) -> None:
        self.ok = ok
        self.kind = kind
        self.version = version
        self.error = error
        self.code = code
        self._data = data
        #: ``(answers, names)`` while ``data["rows"]`` is :data:`_UNBUILT`.
        self._rows: Optional[tuple[Answers, Optional[tuple[str, ...]]]] = None

    @classmethod
    def with_rows(
        cls,
        kind: str,
        data: dict,
        version: int,
        answers: Answers,
        names: Optional[tuple[str, ...]] = None,
    ) -> "Response":
        """An ``ok`` reply whose ``data`` is ``data`` plus ``rows``: one
        ``{name: text}`` dict per answer under ``names``, else one list
        of texts."""
        data["rows"] = _UNBUILT
        self = cls(ok=True, kind=kind, data=data, version=version)
        self._rows = (answers, names)
        return self

    @property
    def data(self) -> Any:
        pending = self._rows
        if pending is not None:
            answers, names = pending
            self._rows = None
            self._data["rows"] = answers.texts(names)
        return self._data

    def to_json(self) -> str:
        line = _ENCODE({
            "ok": self.ok,
            "kind": self.kind,
            "data": self._data,
            "version": self.version,
            "error": self.error,
            "code": self.code,
        })
        pending = self._rows
        if pending is None:
            return line
        # The encoder printed the envelope around the empty placeholder;
        # the rows go between its brackets.  (A quote inside a string
        # value is escaped, so the first match is the key itself.)
        answers, names = pending
        head, _, tail = line.partition('"rows": []')
        return f'{head}"rows": [{answers.json(names)}]{tail}'

    @staticmethod
    def from_json(line: str) -> "Response":
        d = json.loads(line)
        return Response(
            ok=d["ok"],
            kind=d["kind"],
            data=d.get("data"),
            version=d.get("version"),
            error=d.get("error"),
            code=d.get("code"),
        )

    @staticmethod
    def failure(code: str, message: str) -> "Response":
        return Response(
            ok=False, kind="error", error=message, code=code
        )

    def _fields(self) -> tuple:
        return (
            self.ok, self.kind, self.data, self.version, self.error, self.code
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Response:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            "Response(ok={!r}, kind={!r}, data={!r}, version={!r}, "
            "error={!r}, code={!r})".format(*self._fields())
        )


def _template(parsed: LPSClause, consts: tuple) -> Optional[LPSClause]:
    """The goal clause with slot ``k``'s constant a ``Param(k)`` wherever
    it is an argument of a body atom, or ``None`` unless that is all it
    is: every slot must be such an argument, no slot's constant may stay
    behind (in a quantifier range, say, or as a predicate name), and
    binding the template to the text's own constants must rebuild the
    clause the parser built."""
    slot = {c: Param(k) for k, c in enumerate(consts)}
    body = tuple(
        Literal(Atom(l.atom.pred, tuple(
            slot.get(t, t) if t.__class__ is Const else t
            for t in l.atom.args
        )), l.positive)
        for l in parsed.body
    )
    template = LPSClause(parsed.head, parsed.quantifiers, body)
    used = {t for l in body for t in l.atom.args if t.__class__ is Param}
    rest = [src for _, src in parsed.quantifiers]
    rest += [t for l in body for t in l.atom.args if t.__class__ is not Param]
    names = {c.value for c in consts}
    if (
        len(used) != len(consts)
        or any(l.atom.pred in names for l in body)
        or any(s.__class__ is Const and s in slot
               for t in rest for s in subterms(t))
        or template.bind(consts) != parsed
    ):
        return None
    return template


def _lru_get(cache: dict, key: Any) -> Any:
    """``cache[key]`` made the most recent entry, or ``None``."""
    hit = cache.pop(key, None)
    if hit is not None:
        cache[key] = hit
    return hit


def _lru_put(cache: dict, key: Any, value: Any) -> None:
    cache[key] = value
    if len(cache) > QUERY_CACHE_SIZE:
        del cache[next(iter(cache))]


class QueryResult:
    """Query answers at one version: a variable schema over rows held in
    ID space, in print order; ``rows`` are the term tuples, built when
    first read."""

    def __init__(
        self, vars: tuple[str, ...], answers: Answers, version: int
    ) -> None:
        self.vars = vars
        self.answers = answers
        self.version = version

    @cached_property
    def rows(self) -> list[tuple[Term, ...]]:
        return self.answers.terms()

    @property
    def truth(self) -> bool:
        """For ground queries: whether any answer exists."""
        return bool(self.answers.n)


@dataclass
class SessionStats:
    """Per-session counters, merged service-wide on ``:stats`` reads."""

    queries: int = 0
    answers: int = 0
    writes: int = 0
    errors: int = 0
    solver: SolverStats = field(default_factory=SolverStats)
    execs: ExecStats = field(default_factory=ExecStats)

    def merge(self, other: "SessionStats") -> None:
        self.queries += other.queries
        self.answers += other.answers
        self.writes += other.writes
        self.errors += other.errors
        self.solver.merge(other.solver)
        self.execs.merge(other.execs)


class Session:
    """One client's view of the shared :class:`VersionedModel`.

    Sessions are *not* shared between threads: the service hands each
    connection its own.  The session lock only guards the session's own
    pending batch and stats against the service's merge-on-read, never the
    shared model — reads are wait-free with respect to the writer.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        model: VersionedModel,
        max_batch: int = 10_000,
        service: Optional["QueryService"] = None,
        max_pending_diffs: int = 256,
    ) -> None:
        self.session_id = next(Session._ids)
        self._model = model
        self._max_batch = max_batch
        self._service = service
        self._lock = threading.Lock()
        self._closed = False
        #: None = immediate writes; a list = explicit batch (``:begin``).
        self._pending: Optional[list[tuple[bool, Atom]]] = None
        #: None = follow the latest version; an int = pinned ``:at N``.
        self._read_version: Optional[int] = None
        self._pinned: list[int] = []
        self.stats = SessionStats()
        #: Goal shape key (``lang.goal_shape``) -> ``(rule, out_index)``:
        #: the compiled rule and, per answer column, the index of its
        #: variable among a text's names.  Goal text -> ``(rule,
        #: constants, answer names)``.  Least recently asked first; each
        #: holds at most :data:`QUERY_CACHE_SIZE` entries.
        self._shapes: dict[Any, Any] = {}
        self._texts: dict[str, tuple] = {}
        #: The served program and EDB signatures goals are typed against,
        #: and the predicate sorts they give (see :meth:`_compiled_query`).
        self._typed_against: tuple[Any, Any, dict] = (None, None, {})
        #: Queued subscription push frames (drained by ``:diffs`` or the
        #: protocol's async push path); bounded — an undrained session's
        #: subscriptions are dropped rather than growing the server.
        self._max_pending_diffs = max_pending_diffs
        self._push_frames: deque[dict] = deque()
        #: Protocol hook: called (from the dispatcher thread) after a
        #: frame is enqueued, so the connection can wake and flush.
        self.on_push: Optional[Callable[[], None]] = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Tear the session down; pending writes are **discarded**.

        A mid-batch disconnect must not poison the shared model: nothing
        staged is applied, pinned versions are released, and the session
        refuses further requests with ``session_closed``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._pending = None
            self._push_frames.clear()
            self.on_push = None
        for v in self._pinned:
            self._model.release(v)
        self._pinned.clear()
        if self._service is not None:
            self._service.forget_session(self)

    # -- snapshot resolution -----------------------------------------------------

    def snapshot(self) -> ModelSnapshot:
        """The snapshot this session's next read will observe."""
        if self._read_version is not None:
            return self._model.at(self._read_version)
        return self._model.current

    def pin(self, version: Optional[int] = None) -> ModelSnapshot:
        """Pin a version (default: latest) and read from it until
        :meth:`unpin`; pinned versions survive registry retirement."""
        snap = self._model.pin(version)
        self._pinned.append(snap.version)
        self._read_version = snap.version
        return snap

    def unpin(self) -> None:
        """Return to following the latest published version."""
        self._read_version = None
        for v in self._pinned:
            self._model.release(v)
        self._pinned.clear()

    # -- queries -----------------------------------------------------------------

    def _compiled_query(self, text: str) -> BoundRule:
        """Compile a (possibly conjunctive) query text.

        The text is wrapped as the body of a ``__query__`` clause; the
        answer head collects the body's free variables in a deterministic
        order (``_`` excepted), so answers are full bindings exactly like
        rule derivation.  The goal is sort-inferred against the served
        program's predicate sorts: ``succ(a, S)`` alone does not say that
        ``S`` is a set, the program's ``succ(X, <Y>) :- …`` does — and,
        for a predicate no rule fixes, the EDB's ``sf({a, b})`` does.

        A plan depends on which arguments are constants, never on their
        values, so it is compiled once per goal *shape*
        (:func:`~repro.lang.goal_shape`): a new text of a known shape
        costs one lexing pass, and its constants are bound at execution.
        A text asked before costs one dict hit.
        """
        served = self._model.program
        edb = self._model.current.database.signatures
        with self._lock:
            typed = self._typed_against
            if typed[0] is not served or typed[1] is not edb:
                # New rules or a new EDB predicate retype every goal.
                self._typed_against = typed = (
                    served, edb, {**edb, **predicate_sorts(served)}
                )
                self._texts.clear()
                self._shapes.clear()
            hit = _lru_get(self._texts, text)
        if hit is not None:
            return BoundRule(*hit)
        lexed = goal_shape(text)
        if lexed is None:
            return self._own_goal(text)     # parsing says why it fails
        key, consts, names = lexed
        with self._lock:
            shape = _lru_get(self._shapes, key)
        new = shape is None
        if new:
            # A goal that fails to parse or type raises here, so its
            # shape is never cached.
            parsed = self._parse_goal(text, typed[2])
            template = parsed
            if consts and isinstance(parsed, LPSClause):
                template = _template(parsed, consts)
            if template is None or isinstance(parsed, Rule):
                # Not every constant is a slot, or a formula goal: compiled
                # for this text.
                key, consts, template = None, (), parsed
            rule = self._query_rule(template)
            shape = (rule, tuple(names.index(v.name) for v in rule.head.args))
        rule, out_index = shape
        entry = (rule, consts or None, tuple(names[i] for i in out_index))
        with self._lock:
            if self._typed_against is typed:
                if new and key is not None:
                    _lru_put(self._shapes, key, shape)
                _lru_put(self._texts, text, entry)
        return BoundRule(*entry)

    def _parse_goal(
        self, text: str, signatures: dict
    ) -> LPSClause | Rule:
        """The goal as the body of a ``__query__`` clause, sort-inferred
        against ``signatures``: an LPS clause, or a rule with the goal's
        formula kept whole (never split into Theorem 6 auxiliaries)."""
        program = parse_program(
            f"{QUERY_PRED} :- {text}.", signatures=signatures, split=False
        )
        clauses = program.clauses
        if len(clauses) != 1 or isinstance(clauses[0], GroupingClause):
            raise EvaluationError(
                "a query must be a single (conjunctive) goal"
            )
        return clauses[0]

    def _query_rule(self, parsed: LPSClause | Rule) -> _CompiledRule:
        """The goal's rule: its head holds the named free variables."""
        out_vars = tuple(sorted(
            (v for v in parsed.free_vars()
             if not v.name.startswith(ANONYMOUS)),
            key=lambda v: (v.var_sort, v.name),
        ))
        head = Atom(QUERY_PRED, out_vars)
        if isinstance(parsed, Rule):
            clause = Rule(head, parsed.body)
        else:
            clause = LPSClause(
                head=head, quantifiers=parsed.quantifiers, body=parsed.body
            )
        return _CompiledRule(clause, self._model.builtins)

    def _own_goal(self, text: str) -> BoundRule:
        """The text compiled on its own and not cached: how an error
        names the text's own variables and constants, not those of the
        text that compiled its shape."""
        rule = self._query_rule(
            self._parse_goal(text, self._typed_against[2])
        )
        return BoundRule(rule, None, tuple(v.name for v in rule.head.args))

    def query(self, text: str) -> QueryResult:
        """Answer a query against this session's pinned snapshot.

        Pending batched writes are flushed first (read-your-writes) unless
        the session is pinned to an explicit historical version.
        """
        self._check_open()
        if self._read_version is None:
            self.flush()
        goal = self._compiled_query(text)
        snap = self.snapshot()
        try:
            answers = self._answers(goal, snap)
        except LPSError:
            # A shared plan's error names the variables and constants of
            # the text that compiled it: this text raises its own.
            goal = self._own_goal(text)
            answers = self._answers(goal, snap)
        return QueryResult(
            vars=goal.vars, answers=answers, version=snap.version
        )

    def _answers(self, goal: BoundRule, snap: ModelSnapshot) -> Answers:
        """The goal's answers over a snapshot, counted as one query.  The
        engines get no active domain: a query must be range-restricted,
        it may not enumerate the domain."""
        stats = SessionStats()
        engines = _Engines(
            snap.interpretation, self._model.builtins,
            stats.solver, stats.execs,
        )
        batch = goal.id_rows(engines)
        answers = Answers(
            batch, None if batch.made_as_rows else batch.cols
        )
        stats.queries += 1
        stats.answers += answers.n
        with self._lock:
            self.stats.merge(stats)
        return answers

    # -- writes ------------------------------------------------------------------

    def _parse_fact(self, text: str) -> Atom:
        a = parse_atom(text.strip().removesuffix("."))
        if not a.is_ground():
            raise EvaluationError(f"fact {a} is not ground")
        return a

    def assert_fact(self, text: str) -> Response:
        return self._stage(True, self._parse_fact(text))

    def retract_fact(self, text: str) -> Response:
        return self._stage(False, self._parse_fact(text))

    def _stage(self, is_add: bool, a: Atom) -> Response:
        self._check_open()
        refusal = self._refused_write()
        if refusal is not None:
            return refusal
        with self._lock:
            pending = self._pending
            if pending is not None:
                if len(pending) >= self._max_batch:
                    self.stats.errors += 1
                    return Response.failure(
                        E_BATCH,
                        f"pending batch exceeds max_batch={self._max_batch};"
                        " :commit or :abort it",
                    )
                # Refused now, not at :commit, where it would fail the
                # whole batch and every read that flushes it.  An added
                # fact goes with the last staged one of its predicate,
                # which has the batch's arity (scanned from the end: a
                # bulk load stages a predicate's facts together).
                if is_add:
                    last = next((
                        b for add, b in reversed(pending)
                        if add and b.pred == a.pred
                    ), None)
                    self._model.checked([a] if last is None else [last, a])
                else:
                    self._model.checked((), [a])
                pending.append((is_add, a))
                return Response(
                    ok=True, kind="write",
                    data={"staged": len(pending)},
                )
        snap, report = self._apply([(is_add, a)])
        net = (report.net_added if is_add else report.net_removed) \
            if report is not None else 0
        with self._lock:
            self.stats.writes += 1
        return Response(
            ok=True, kind="write",
            data={"applied": net}, version=snap.version,
        )

    @_on(":begin")
    def begin(self) -> Response:
        """Open an explicit write batch (``:begin``)."""
        self._check_open()
        with self._lock:
            if self._pending is None:
                self._pending = []
            return Response(
                ok=True, kind="ok", data={"batch": len(self._pending)}
            )

    @_on(":commit")
    def commit(self) -> Response:
        """Apply the pending batch as one atomic delta (``:commit``)."""
        self._check_open()
        with self._lock:
            pending, self._pending = self._pending or [], None
        if not pending:
            return Response(
                ok=True, kind="write", data={"applied": 0},
                version=self._model.version,
            )
        try:
            snap, report = self._apply(pending)
        except Exception:
            # A failed apply must not lose the client's staged writes:
            # restore them so the error is retryable (fact deltas are
            # idempotent set operations, so a retry cannot double-apply).
            with self._lock:
                restored = list(pending)
                if self._pending:
                    restored.extend(self._pending)
                self._pending = restored
            raise
        applied = (report.net_added + report.net_removed) \
            if report is not None else 0
        with self._lock:
            self.stats.writes += len(pending)
        return Response(
            ok=True, kind="write",
            data={"applied": applied}, version=snap.version,
        )

    @_on(":abort")
    def abort(self) -> Response:
        """Discard the pending batch (``:abort``)."""
        self._check_open()
        with self._lock:
            dropped = len(self._pending or ())
            self._pending = None
        return Response(ok=True, kind="ok", data={"dropped": dropped})

    def flush(self) -> None:
        """Commit any pending batch (the read-your-writes hook)."""
        with self._lock:
            has_pending = bool(self._pending)
        if has_pending:
            self.commit()

    def _apply(
        self, batch: Iterable[tuple[bool, Atom]]
    ) -> tuple[ModelSnapshot, Optional[MaintenanceReport]]:
        """Apply one batch; returns the snapshot plus **this call's**
        maintenance report (a no-op delta publishes nothing, so the
        returned snapshot's own ``report`` field is the previous one)."""
        adds = [a for is_add, a in batch if is_add]
        dels = [a for is_add, a in batch if not is_add]
        with self._model.lock:
            snap = self._model.apply_delta(adds=adds, dels=dels)
            report = self._model.last_report
        # Replication ack gating runs *outside* the write lock: waiting
        # for follower acks must never stall other writers or the
        # shipping stream itself.
        if self._service is not None:
            self._service.wait_replicated(snap.version)
        return snap, report

    def _refused_write(self) -> Optional[Response]:
        """Role hook: a follower's session refuses writes here (the
        service decides; a standalone session is always writable)."""
        if self._service is not None:
            return self._service.refuse_write()
        return None

    # -- live subscriptions ------------------------------------------------------

    @_on(":subscribe", "GOAL", _text)
    def subscribe(self, text: str) -> Response:
        """``:subscribe goal.`` — register a standing query.

        The goal compiles through the same planner as ad-hoc queries; the
        reply carries the full answer set at the baseline version, and
        every later commit that moves the answer set pushes an exact
        ``diff`` frame (see :mod:`repro.server.subscriptions`).

        A pending ``:begin`` batch is deliberately *not* flushed: the
        baseline is the latest published version, so staged writes arrive
        as the subscription's first diff when the batch commits.
        """
        self._check_open()
        manager = self._subscriptions()
        if manager is None:
            return Response.failure(
                E_COMMAND,
                "subscriptions require an owning query service",
            )
        text = text.strip().removesuffix(".")
        goal = self._compiled_query(text)
        sub_id, snap = manager.subscribe(self, goal)
        try:
            answers = self._answers(goal, snap)
        except Exception as exc:
            # Never leave a half-registered standing query behind a
            # failed initial evaluation (e.g. an unsafe goal).
            manager.unsubscribe(self, sub_id)
            if isinstance(exc, LPSError):
                self._answers(self._own_goal(text), snap)   # its own error
            raise
        return Response.with_rows(
            "subscribed",
            {
                "sub": sub_id,
                "vars": list(goal.vars),
                "truth": bool(answers.n),
            },
            snap.version, answers,
        )

    @_on(":unsubscribe", "N", _int)
    def unsubscribe(self, sub_id: int) -> Response:
        """``:unsubscribe N`` — cancel one of this session's standing
        queries; frames already queued stay drainable via ``:diffs``."""
        self._check_open()
        manager = self._subscriptions()
        if manager is None or not manager.unsubscribe(self, sub_id):
            return Response.failure(
                E_COMMAND, f"unknown subscription {sub_id}"
            )
        return Response(
            ok=True, kind="ok",
            data={"sub": sub_id, "active": manager.session_subs(self)},
        )

    @_on(":diffs", "[MAX]", _optional_int)
    def diffs(self, limit: Optional[int] = None) -> Response:
        """``:diffs [N]`` — drain (up to N of) the queued push frames."""
        self._check_open()
        frames = self.take_push_frames(limit)
        return Response(
            ok=True, kind="diffs",
            data={"frames": frames, "pending": self.pending_push_count()},
            version=self._model.version,
        )

    def _subscriptions(self):
        if self._service is None:
            return None
        return getattr(self._service, "subscriptions", None)

    def push_frame(self, frame: dict, force: bool = False) -> bool:
        """Enqueue one push frame (dispatcher-side delivery hook).

        Returns ``False`` — without enqueuing — when the session is
        closed or its queue is full, which tells the dispatcher to drop
        the subscription; ``force`` bypasses the bound so the final
        ``sub_dropped`` notice itself always fits.
        """
        with self._lock:
            if self._closed:
                return False
            if not force and len(self._push_frames) >= self._max_pending_diffs:
                return False
            self._push_frames.append(frame)
        cb = self.on_push
        if cb is not None:
            try:
                cb()
            except Exception:
                pass
        return True

    def take_push_frames(self, limit: Optional[int] = None) -> list[dict]:
        """Drain queued push frames (all of them, or the oldest ``limit``)."""
        with self._lock:
            if limit is None or limit >= len(self._push_frames):
                out = list(self._push_frames)
                self._push_frames.clear()
            else:
                out = [
                    self._push_frames.popleft()
                    for _ in range(max(0, limit))
                ]
            return out

    def pending_push_count(self) -> int:
        with self._lock:
            return len(self._push_frames)

    # -- the REPL grammar --------------------------------------------------------

    def execute(self, line: str) -> Response:
        """Dispatch one protocol line; never raises — errors are responses."""
        try:
            return self._dispatch(line.strip())
        except RetiredVersionError as exc:
            return self._error(E_RETIRED, exc)
        except SafetyError as exc:
            return self._error(E_UNSAFE, exc)
        except LPSError as exc:
            # Errors may carry their own stable protocol code (e.g. the
            # replication hub's ack-timeout tags replication_lag).
            code = getattr(exc, "code", None)
            if not isinstance(code, str):
                code = E_PARSE if _is_parse_error(exc) else E_EVAL
            return self._error(code, exc)
        except Exception as exc:
            # A bug, not a bad request — but the client still gets an
            # answer and keeps its connection.
            logger.exception("unexpected error serving %r", line)
            return self._error(E_EVAL, exc)

    def _error(self, code: str, exc: Exception) -> Response:
        with self._lock:
            self.stats.errors += 1
        return Response.failure(code, str(exc))

    def _dispatch(self, line: str) -> Response:
        if not line:
            return Response(ok=True, kind="ok")
        if self._closed:
            return Response.failure(E_CLOSED, "session is closed")
        if line.startswith("?-"):
            result = self.query(line[2:].strip().removesuffix("."))
            return Response.with_rows(
                "answers",
                {"vars": list(result.vars), "truth": result.truth},
                result.version, result.answers, result.vars,
            )
        if line.startswith("+"):
            return self.assert_fact(line[1:])
        if line.startswith("-"):
            return self.retract_fact(line[1:])
        if line.startswith(":"):
            return self._command(line)
        # Anything else is a program clause (a write: role hook applies).
        refusal = self._refused_write()
        if refusal is not None:
            return refusal
        snap = self.add_clause(line)
        return Response(ok=True, kind="ok", version=snap.version)

    def _command(self, line: str) -> Response:
        cmd, _, arg = line.partition(" ")
        arg = arg.strip()
        entry = COMMANDS.get(cmd)
        if entry is None:
            return Response.failure(E_COMMAND, f"unknown command {cmd!r}")
        usage, parse, handler = entry
        try:
            args = parse(arg)
        except (ValueError, IndexError):
            return Response.failure(
                E_COMMAND, f"usage: {cmd} {usage} (got {arg!r})"
            )
        return getattr(self, handler)(*args)

    @_on(":version")
    def _version_info(self) -> Response:
        snap = self.snapshot()
        return Response(
            ok=True, kind="version",
            data={
                "latest": self._model.version,
                "reading": snap.version,
                "pinned": self._read_version is not None,
            },
            version=snap.version,
        )

    @_on(":at", "VERSION", _int)
    def _at(self, version: int) -> Response:
        latest = self._model.version
        if version > latest:
            # Never published here.  On a leader that version simply
            # does not exist; on a follower it may exist upstream and
            # merely not be applied yet (see FollowerSession).
            return self._future_version(version, latest)
        # Pin the version so it cannot retire out from under the
        # session while it is reading there (released by :latest).
        self.unpin()
        snap = self.pin(version)         # raises RetiredVersionError
        return Response(ok=True, kind="ok", version=snap.version)

    @_on(":latest")
    def _latest(self) -> Response:
        self.unpin()
        return Response(ok=True, kind="ok", version=self._model.version)

    @_on(":model")
    def _model_text(self) -> Response:
        snap = self.snapshot()
        return Response(
            ok=True, kind="model", data=snap.pretty(), version=snap.version
        )

    @_on(":plan", "RULE", _text)
    def _plan(self, text: str) -> Response:
        return Response(ok=True, kind="plan", data=self.plan_text(text))

    @_on(":stats")
    def _stats(self) -> Response:
        return Response(
            ok=True, kind="stats", data=self.stats_data(),
            version=self._model.version,
        )

    @_on(":role")
    def _role(self) -> Response:
        if self._service is not None:
            data = self._service.role_info()
        else:
            data = {
                "role": "standalone",
                "version": self._model.version,
                "epoch": getattr(self._model, "epoch", 0),
            }
        return Response(
            ok=True, kind="role", data=data, version=self._model.version
        )

    # -- replication hooks (overridden by FollowerSession) -----------------------

    def _future_version(self, version: int, latest: int) -> Response:
        with self._lock:
            self.stats.errors += 1
        return Response(
            ok=False, kind="error", code=E_UNKNOWN_VERSION,
            error=(
                f"version {version} has never been published "
                f"(latest is {latest})"
            ),
            data={"latest": latest},
        )

    @_on(":sync", "VERSION [TIMEOUT]", _sync_args)
    def _sync(self, version: int, timeout: float) -> Response:
        """``:sync N`` — block until the model reaches version ``N``.

        The read-your-writes primitive across replicas: a client that
        wrote version N on the leader syncs to N on a follower before
        reading there.  On a leader this returns immediately (versions
        only advance through acknowledged writes).
        """
        latest = self._model.wait_version(version, timeout)
        if latest >= version:
            return Response(
                ok=True, kind="version",
                data={"latest": latest}, version=latest,
            )
        with self._lock:
            self.stats.errors += 1
        return Response(
            ok=False, kind="error", code=E_NOT_YET,
            error=(
                f"version {version} not applied within "
                f"{timeout:g}s (still at {latest})"
            ),
            data={"retryable": True, "latest": latest},
        )

    @_on(":promote")
    def _promote(self) -> Response:
        return Response.failure(
            E_NOT_FOLLOWER,
            "this server is not a follower; only a follower can be "
            "promoted",
        )

    # -- program management ------------------------------------------------------

    def add_clause(self, text: str) -> ModelSnapshot:
        """Extend the shared program (``QueryService.extend_program``)."""
        self._check_open()
        if self._service is None:
            raise EvaluationError(
                "this session has no owning service; program extension "
                "must go through QueryService.extend_program"
            )
        return self._service.extend_program(text)

    def plan_text(self, text: str) -> str:
        """Pretty-print the compiled plan of a standalone rule (``:plan``)."""
        program = parse_program(text)
        if not program.clauses:
            raise EvaluationError("no clause to plan")
        builtins = self._model.builtins
        chunks = []
        # Sugar like positive-formula bodies may desugar into several
        # clauses (Theorem 6); show the plan of each one.
        for c in program.clauses:
            if isinstance(c, GroupingClause):
                cp = compile_grouping(c, builtins)
            else:
                cp = compile_rule(c, builtins)
            header = f"-- {c}"
            if not cp.is_set:
                chunks.append(f"{header}\ntuple-mode: {cp.reason}")
            else:
                # Tag each operator with the execution mode the columnar
                # executor would choose, so ``:plan`` shows vectorization.
                chunks.append(f"{header}\n{annotated_pretty(cp.root, builtins)}")
        return "\n\n".join(chunks)

    # -- stats -------------------------------------------------------------------

    def stats_snapshot(self) -> SessionStats:
        """A consistent copy of this session's counters (merge-on-read)."""
        with self._lock:
            out = SessionStats()
            out.merge(self.stats)
            return out

    def stats_data(self) -> dict:
        """The ``:stats`` payload; service-wide when a service owns us."""
        return stats_payload(self._model, self._merge_stats())

    def _merge_stats(self) -> SessionStats:
        if self._service is not None:
            return self._service.merged_session_stats()
        return self.stats_snapshot()

    # -- helpers -----------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise EvaluationError("session is closed")


def _is_parse_error(exc: Exception) -> bool:
    from ..core.errors import ParseError

    return isinstance(exc, ParseError)


def stats_payload(model: VersionedModel, merged: SessionStats) -> dict:
    """The ``:stats`` payload: last-delta summary (with the plan each
    touched stratum took and why a recomputed one was), session totals,
    the combined executor counters (writer maintenance + reader queries)
    and the commit stream's head, retained entries and per-consumer
    lag."""
    report = model.last_report
    last = None
    if report is not None:
        last = {
            "strategy": report.strategy,
            "atoms_added": report.atoms_added,
            "atoms_removed": report.atoms_removed,
            "fallback_reason": report.fallback_reason,
            "strata": [
                {"stratum": sp.index, "plan": sp.plan, "reason": sp.reason}
                for sp in report.stratum_plans
            ],
        }
    exec_all = ExecStats()
    exec_all.merge(model.exec_stats)
    exec_all.merge(merged.execs)
    return {
        "version": model.version,
        "last_delta": last,
        "queries": merged.queries,
        "answers": merged.answers,
        "writes": merged.writes,
        "errors": merged.errors,
        "matches": merged.solver.matches,
        "executor": exec_all.pretty(),
        "columnar": exec_all.columnar_summary(),
        "commit_stream": model.commits.info(),
    }
