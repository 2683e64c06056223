"""Live subscription queries: exact per-commit diffs for standing queries.

``:subscribe goal.`` compiles a goal through the same planner as ad-hoc
queries and registers it as a **standing query**.  The client gets the
full answer set once, at the subscribing version; from then on every
committed version pushes only the *exact diff* of the answer set —
computed by delta-plan evaluation, never by re-running the query:

* **Registration is gap-free.**  The manager registers the standing query
  under the model's write lock, recording the then-current version as its
  baseline; the dispatcher reads a cursor on the model's commit stream
  (:mod:`repro.engine.commits`), opened under the same lock — so every
  version published after the baseline is observed exactly once, in order.
* **Diffs come from the maintenance deltas.**  Each published snapshot
  carries :class:`~repro.engine.maintenance.ModelChanges`: the exact
  per-predicate model atoms the commit added and removed.  For a
  delta-capable goal (a plain conjunction of positive literals) the
  dispatcher substitutes those sets into the goal's delta-variant plans —
  occurrence ``i`` pinned to the delta, the rest of the body joined
  against a full snapshot (``BoundRule.heads`` with a ``pin``, the
  same machinery semi-naive evaluation and rederive maintenance use,
  columnar where the executor applies):

  - **candidate additions** pin each occurrence to the commit's *adds*
    and join over the **new** snapshot — every genuinely new answer has a
    new-state derivation consuming at least one added atom;
  - **candidate removals** pin each occurrence to the commit's *dels* and
    join over the **old** snapshot — every vanished answer's old-state
    derivations all consumed at least one deleted atom.

  Candidates are then filtered to the exact diff by a membership probe
  against the opposite snapshot (an added answer must not be derivable in
  the old state, a removed one not in the new), so alternative
  derivations never produce spurious rows.  Goals outside the delta
  fragment (negation, quantifiers) — and program replacements, which
  publish no delta — fall back to evaluate-and-diff against the
  dispatcher's cached rows; the pushed frames are bit-identical either
  way (property-tested in ``tests/test_subscribe.py``).
* **Delivery is bounded.**  Frames land in a per-session bounded queue
  (drained by ``:diffs`` or pushed asynchronously by the TCP protocol).
  A subscriber that stops draining is dropped with a final
  ``sub_dropped`` frame — same back-pressure policy as the replication
  hub: shed the slow consumer, never grow the server without limit.
* **One dispatcher, no polling.**  A single daemon thread blocks in
  :meth:`Cursor.read <repro.engine.commits.Cursor.read>`; per commit it
  builds two sets of delta engines (adds over the new snapshot, dels over
  the old) shared by *all* standing queries, which is what makes
  thousands of subscriptions cheap: a commit's dispatch reads rows in
  proportion to its delta, not to the answer sets
  (``tests/test_layer_costs.py``).  A dispatcher that falls
  behind ``keep_versions`` (the stream carries versions, not snapshots)
  catches up with one evaluate-and-diff spanning what it skipped.

Followers run the same manager: applied records publish versions through
the same `VersionedModel` machinery, so subscriptions served from a
follower push diffs at the follower's applied version.  When a lagging
follower re-seeds from a shipped snapshot (a new model object), the
manager opens a cursor on the new model and subscribers receive one
catch-up diff spanning the jump.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Optional

from ..core.atoms import Atom
from ..core.terms import Term
from ..engine.answers import Answers
from ..engine.commits import Cursor, FellBehind
from ..engine.evaluation import BoundRule, SolverStats, _Engines
from ..engine.ir import ExecStats
from ..engine.maintenance import (
    ModelChanges,
    ModelSnapshot,
    RetiredVersionError,
    VersionedModel,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .service import QueryService
    from .session import Session

#: Push-frame kinds (the protocol forwards these as Response kinds).
FRAME_DIFF = "diff"
FRAME_DROPPED = "sub_dropped"

#: Dropped-subscription reasons.
REASON_SLOW = "slow_consumer"

#: The dispatcher's name on the commit stream (``:stats``).
CONSUMER = "subscriptions"


def render_rows(rows: Iterable[tuple[Term, ...]]) -> list[list[str]]:
    """Deterministic JSON-safe rows: sorted by term order, rendered."""
    return Answers(list(rows)).texts()


class StandingQuery:
    """One registered subscription: a compiled goal plus dispatch state.

    ``rows`` is the dispatcher's cached answer set, maintained lazily: it
    is only populated (from the *previous* snapshot, which is always at
    hand) when a commit forces the evaluate-and-diff fallback, and kept
    current by applying each pushed diff — so a later fallback never
    diffs against a stale baseline.
    """

    __slots__ = (
        "sub_id", "session", "rule", "var_names", "preds",
        "start_version", "rows", "dropped",
    )

    def __init__(
        self,
        sub_id: int,
        session: "Session",
        rule: BoundRule,
        start_version: int,
    ) -> None:
        self.sub_id = sub_id
        self.session = session
        self.rule = rule
        self.var_names = rule.vars
        self.preds = frozenset(rule.deps)
        self.start_version = start_version
        self.rows: Optional[set[tuple[Term, ...]]] = None
        self.dropped = False


class SubscriptionManager:
    """The service's standing-query registry and diff dispatcher."""

    def __init__(self, service: "QueryService") -> None:
        self.service = service
        self._model: VersionedModel = service.model
        self._cond = threading.Condition(threading.Lock())
        self._subs: dict[int, StandingQuery] = {}
        self._by_session: dict[int, set[int]] = {}
        self._ids = itertools.count(1)
        #: The dispatcher's cursor on the followed model's commit stream,
        #: opened by the first subscription.
        self._cursor: Optional[Cursor] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = False
        #: Last version the dispatcher finished (tests/benchmarks barrier).
        self._processed = 0
        #: Dispatcher-only: the previous snapshot (the diff baseline) and
        #: the cursor it was read from.
        self._prev: Optional[ModelSnapshot] = None
        self._reading: Optional[Cursor] = None
        #: Dispatcher-thread counters (never shared with session stats).
        self._solver_stats = SolverStats()
        self._exec_stats = ExecStats()

    # -- registration ------------------------------------------------------------

    def subscribe(
        self, session: "Session", rule: BoundRule
    ) -> tuple[int, ModelSnapshot]:
        """Register a standing query; returns its id and the baseline
        snapshot (the caller evaluates the initial answer set there).

        Runs under the model's write lock so the baseline version and the
        first dispatched diff are gap-free: every version published after
        the baseline reaches the subscription exactly once.
        """
        while True:
            model = self._model
            with model.lock:
                if model is not self._model:
                    continue  # retargeted mid-subscribe (follower re-seed)
                snap = model.current
                with self._cond:
                    if self._cursor is None:
                        self._cursor = model.commits.open(CONSUMER)
                        self._prev, self._reading = snap, self._cursor
                        # The baseline is processed by definition (there
                        # is nothing to dispatch at or before it): callers
                        # of wait_caught_up must not block when no commit
                        # has happened yet.
                        self._processed = max(self._processed, snap.version)
                        self._cond.notify_all()
                    sub_id = next(self._ids)
                    sq = StandingQuery(sub_id, session, rule, snap.version)
                    self._subs[sub_id] = sq
                    self._by_session.setdefault(
                        session.session_id, set()
                    ).add(sub_id)
                break
        self._ensure_thread()
        return sub_id, snap

    def unsubscribe(self, session: "Session", sub_id: int) -> bool:
        """Remove one of ``session``'s subscriptions; False if unknown."""
        with self._cond:
            sq = self._subs.get(sub_id)
            if sq is None or sq.session is not session:
                return False
            sq.dropped = True
            del self._subs[sub_id]
            ids = self._by_session.get(session.session_id)
            if ids is not None:
                ids.discard(sub_id)
                if not ids:
                    del self._by_session[session.session_id]
            return True

    def drop_session(self, session: "Session") -> None:
        """Forget every subscription of a closing session."""
        with self._cond:
            for sub_id in self._by_session.pop(session.session_id, ()):
                sq = self._subs.pop(sub_id, None)
                if sq is not None:
                    sq.dropped = True

    def session_subs(self, session: "Session") -> list[int]:
        with self._cond:
            return sorted(self._by_session.get(session.session_id, ()))

    def active_count(self) -> int:
        with self._cond:
            return len(self._subs)

    # -- lifecycle ---------------------------------------------------------------

    def retarget(self, model: VersionedModel) -> None:
        """Follow a replacement model (follower snapshot re-seed): open a
        cursor on it.

        Subscribers get one catch-up diff spanning the jump from their
        last observed version to the re-seeded state (computed by the
        evaluate-and-diff path — both snapshots remain valid objects even
        though they come from different models).
        """
        with model.lock:
            with self._cond:
                self._model = model
                if self._cursor is not None and not self._stop:
                    self._cursor.close()
                    self._cursor = model.commits.open(CONSUMER)

    def stop(self) -> None:
        with self._cond:
            self._stop = True
            if self._cursor is not None:
                self._cursor.close()
            self._cond.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)

    def wait_caught_up(
        self, version: int, timeout: float = 10.0
    ) -> bool:
        """Block until the dispatcher has processed ``version`` (a barrier
        for tests and benchmarks; parks on the condition, no polling)."""
        deadline = time.monotonic() + max(0.0, timeout)
        with self._cond:
            while self._processed < version:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    # -- internals: the dispatcher -----------------------------------------------

    def _ensure_thread(self) -> None:
        with self._cond:
            if self._thread is not None and self._thread.is_alive():
                return
            self._thread = threading.Thread(
                target=self._run, name="lps-subscriptions", daemon=True
            )
            self._thread.start()

    def _run(self) -> None:
        while True:
            with self._cond:
                if self._stop:
                    return
                moved = self._reading is not self._cursor
                cursor = self._reading = self._cursor
                model = self._model
            unread = []
            if not moved:
                try:
                    unread = cursor.read(wait=True)
                except FellBehind:
                    moved = True
            if moved:
                self._advance(model)
            for commit in unread:
                if self._stop:
                    return
                # Fencing bumps publish nothing; a catch-up overtakes the
                # entries behind it.
                if commit.version > self._prev.version:
                    self._advance(model, commit.version)

    def _advance(
        self, model: VersionedModel, version: Optional[int] = None
    ) -> None:
        """Dispatch ``version`` of ``model`` against the baseline and make
        it the baseline.  No version — another model's stream (re-seed),
        or commits skipped — and one the model has retired
        (``keep_versions``) take one evaluate-and-diff up to the model's
        current snapshot instead, stripped of its own delta, which is
        against a predecessor the dispatcher never saw."""
        snap = None
        if version is not None:
            try:
                snap = model.at(version)
            except RetiredVersionError:
                pass
        if snap is None:
            snap = replace(model.current, report=None)
        prev = self._prev
        if snap.version > prev.version:
            with self._cond:
                subs = list(self._subs.values())
            self._dispatch(prev, snap, subs)
        self._prev = snap
        with self._cond:
            if snap.version > self._processed:
                self._processed = snap.version
            self._cond.notify_all()

    def _dispatch(
        self,
        prev: ModelSnapshot,
        snap: ModelSnapshot,
        subs: list[StandingQuery],
    ) -> None:
        changes, ctx = self._commit_context(prev, snap)
        for sq in subs:
            if sq.dropped or snap.version <= sq.start_version:
                continue
            try:
                diff = self._diff(sq, prev, snap, changes, ctx)
            except Exception as exc:
                self._drop(sq, f"error: {exc}", snap.version)
                continue
            if diff is None:
                continue
            adds, dels = diff
            if adds or dels:
                self._deliver(sq, snap.version, adds, dels)

    def diff(
        self,
        sq: StandingQuery,
        prev: ModelSnapshot,
        snap: ModelSnapshot,
    ) -> tuple[set[tuple[Term, ...]], set[tuple[Term, ...]]]:
        """The exact answer-set diff of one standing query between two
        snapshots (synchronous; the benchmark calls this directly)."""
        changes, ctx = self._commit_context(prev, snap)
        out = self._diff(sq, prev, snap, changes, ctx)
        return out if out is not None else (set(), set())

    def _commit_context(
        self, prev: ModelSnapshot, snap: ModelSnapshot
    ) -> tuple[Optional[ModelChanges], Optional[tuple[_Engines, _Engines]]]:
        """The commit's model changes and the two sets of engines every
        standing query of one dispatch shares: the commit's added atoms
        as delta over the new snapshot, its deleted atoms over the old
        one.  Each query's pinned occurrence reads only its own predicate
        from the delta side."""
        report = snap.report
        changes = report.changes if report is not None else None
        if changes is None:
            return None, None
        return changes, (
            self._engines(snap, changes.adds),
            self._engines(prev, changes.dels),
        )

    def _diff(
        self,
        sq: StandingQuery,
        prev: ModelSnapshot,
        snap: ModelSnapshot,
        changes: Optional[ModelChanges],
        ctx: Optional[tuple[_Engines, _Engines]],
    ) -> Optional[tuple[set, set]]:
        if changes is not None:
            if not changes.touches(sq.preds):
                return None  # untouched: the answer set cannot have moved
            if sq.rule.delta_capable:
                try:
                    adds, dels = self._delta_diff(sq, prev, snap, changes, ctx)
                except Exception:
                    # The delta fragment misbehaved (e.g. a builtin left
                    # unbound by the pinned ordering); the fallback below
                    # is always available and bit-identical.
                    pass
                else:
                    if sq.rows is not None:
                        sq.rows = (sq.rows - dels) | adds
                    return adds, dels
        # Evaluate-and-diff fallback: non-delta-capable goals and program
        # replacements (which publish no per-predicate delta).
        old_rows = (
            sq.rows if sq.rows is not None else self._eval_rows(sq.rule, prev)
        )
        new_rows = self._eval_rows(sq.rule, snap)
        sq.rows = new_rows
        return new_rows - old_rows, old_rows - new_rows

    def _delta_diff(
        self,
        sq: StandingQuery,
        prev: ModelSnapshot,
        snap: ModelSnapshot,
        changes: ModelChanges,
        ctx: tuple[_Engines, _Engines],
    ) -> tuple[set, set]:
        rule = sq.rule
        new, old = ctx
        cand_add: set[Atom] = set()
        cand_del: set[Atom] = set()
        for i in rule.pins(changes.adds):
            cand_add.update(rule.heads(new, i))
        for i in rule.pins(changes.dels):
            cand_del.update(rule.heads(old, i))
        # Exactness probes: alternative derivations on the opposite side
        # disqualify a candidate (it was already — or still is — an answer).
        adds = {h.args for h in cand_add if not rule.derives(old, h)}
        dels = {h.args for h in cand_del if not rule.derives(new, h)}
        return adds, dels

    def _eval_rows(
        self, rule: BoundRule, snap: ModelSnapshot
    ) -> set[tuple[Term, ...]]:
        return set(rule.rows(self._engines(snap)))

    def _engines(self, snap: ModelSnapshot, delta=None) -> _Engines:
        """Engines over a snapshot; like ad-hoc queries they get no
        active domain to enumerate."""
        return _Engines(
            snap.interpretation, self._model.builtins,
            self._solver_stats, self._exec_stats, delta,
        )

    # -- internals: delivery -----------------------------------------------------

    def _deliver(
        self, sq: StandingQuery, version: int, adds: set, dels: set
    ) -> None:
        frame = {
            "kind": FRAME_DIFF,
            "sub": sq.sub_id,
            "version": version,
            "vars": list(sq.var_names),
            "adds": render_rows(adds),
            "dels": render_rows(dels),
        }
        if not sq.session.push_frame(frame):
            if sq.session.closed:
                self._forget(sq)
            else:
                self._drop(sq, REASON_SLOW, version)

    def _drop(self, sq: StandingQuery, reason: str, version: int) -> None:
        """Cancel a subscription server-side; the final forced frame tells
        the client to re-subscribe (mirroring the replication hub's
        slow-consumer policy)."""
        self._forget(sq)
        sq.session.push_frame(
            {
                "kind": FRAME_DROPPED,
                "sub": sq.sub_id,
                "version": version,
                "reason": reason,
            },
            force=True,
        )

    def _forget(self, sq: StandingQuery) -> None:
        with self._cond:
            sq.dropped = True
            self._subs.pop(sq.sub_id, None)
            ids = self._by_session.get(sq.session.session_id)
            if ids is not None:
                ids.discard(sq.sub_id)
                if not ids:
                    del self._by_session[sq.session.session_id]
